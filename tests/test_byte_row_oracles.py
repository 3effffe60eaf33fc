"""The byte-row kernels of the brace, product and solution layers against
the entry-by-entry loops they replaced.

The oracles are in tests/brace_oracle.py, tests/products_oracle.py and
tests/solutions_oracle.py.  The subjects are every census class of orders
1-24 (16 under -m slow), and for the Sylow split of 25, 27 and 49 too; the
products of the file benchmark's op lists for seeds 1-3, whose wreath
products act by translation on the top; dot tables corrupted by
with_dot_entries, on which socle() must reject every socle that the
oracle's element loops reject; socles and solutions forced to be wrong;
and random tables with a two-sided identity and inverses, mostly
non-associative.
Circle powers, orders and inverses, read off the cycle table, are compared
with the step-by-step walks on the census classes and the products, and so
is the radical chain index with the chain formed entry by entry.
The solution kernels, the cycle-set identity decided on class composites
and the involutivity test on strided columns, are compared with the
pairwise and zip routes on the solutions of the census classes and the
products and every stage of their retraction towers, on random
permutation rows (up to 40 points, past 256 distinct composites), and on
census sigma tables with two entries of one row swapped.
The retraction towers, Sylow components and canonical forms, which share
one live brace per table, are compared with the oracles' braces, each
validated anew, on the census classes and the products.
"""

import collections
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracelab.brace as brace_module
import bracelab.products as products_module
import bracelab.solutions as solutions_module
from bracelab.abelian import (
    MAX_TABLE_ORDER,
    PermutationGroup,
    additive_closure,
    columns,
    is_nilpotent_group,
    make_group,
)
from bracelab.brace import LeftBrace, validate_brace
from bracelab.census import enumerate_braces
from bracelab.checks import run_brace_checks
from bracelab.cli import _analysis
from bracelab.documents import (
    BraceDocument,
    SolutionDocument,
    serialize_brace_document,
    serialize_solution_document,
)
from bracelab.errors import BraceLabError, InternalCheckError, ResourceLimitError
from bracelab.products import semidirect, wreath
from bracelab.solutions import SetTheoreticSolution, from_brace, retract_solution
from brace_oracle import (
    circle_group,
    magma_generators,
    oracle_circle_inverse,
    oracle_circle_order,
    oracle_circle_power,
    oracle_classify,
    oracle_dot_table,
    oracle_induced,
    oracle_lambda_rows,
    oracle_radical_chain_index,
    oracle_retract_quotient,
    oracle_row_failure,
    oracle_socle,
    oracle_sylow_components,
    per_generator_nonadditive,
    perm_order_is_nilpotent_group,
)
from checks_oracle import oracle_validate_brace
from conftest import file_ops, tuple_rows, with_dot_entries
from products_oracle import identity_action, oracle_semidirect_table
from solutions_oracle import (
    circle_tau,
    one_pass_retract_solution,
    pairwise_cycle_set_failure,
    zip_rows_involutive,
)

ORDERS = [n if n != 16 else pytest.param(16, marks=pytest.mark.slow) for n in range(1, 25)]


def left_generators(rows):
    pad = bytes(MAX_TABLE_ORDER - len(rows))
    return brace_module._left_generators([row + pad for row in rows])


def outcome(compute, *args):
    try:
        result = compute(*args)
    except BraceLabError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return "ok", result


def fresh(brace) -> LeftBrace:
    """The same brace with no invariant cached yet."""
    return LeftBrace(brace.additive, brace.circle_table)


def build(op):
    kind, first, second = op
    return (semidirect if kind == "semidirect" else wreath)(first, second)


@pytest.fixture
def checked_induced(monkeypatch):
    """LeftBrace._induced, compared with the oracle on every call."""
    calls = []
    real = LeftBrace._induced

    def checked(self, reps, cls):
        got = real(self, reps, cls)
        assert got == oracle_induced(self, reps, cls)
        calls.append(len(reps))
        return got

    monkeypatch.setattr(LeftBrace, "_induced", checked)
    return calls


def assert_kernels_agree(brace, checked_induced):
    subject = fresh(brace)
    dot = subject.dot_table
    assert dot == oracle_dot_table(subject)
    assert all(type(row) is tuple and all(type(v) is int for v in row) for row in dot)
    assert subject._lambda_rows == oracle_lambda_rows(subject)
    assert outcome(subject.classify) == outcome(oracle_classify, fresh(brace))
    group = circle_group(subject)
    assert is_nilpotent_group(group) == perm_order_is_nilpotent_group(group)
    n = subject.order
    for a in range(n):
        # every power up to n covers each residue of m modulo the order
        assert subject.circle_order(a) == oracle_circle_order(subject, a)
        assert subject.circle_inverse(a) == oracle_circle_inverse(subject, a)
        assert [subject.circle_power(a, m) for m in range(n + 1)] == [
            oracle_circle_power(subject, a, m) for m in range(n + 1)
        ]
    assert subject.adjoint_order_profile() == tuple(
        sorted(oracle_circle_order(subject, a) for a in range(n))
    )
    rows = [bytes(row) for row in subject.circle_table]
    assert brace_module._brace_row_failure(subject.additive, rows) is None
    # in a group, the left closure of a set is the subgroup it generates
    assert left_generators(rows) == magma_generators(subject.circle_table)
    assert oracle_row_failure(subject.additive, subject.circle_table) is None

    assert subject.radical_chain_index() == oracle_radical_chain_index(fresh(brace))
    assert subject.socle().members == oracle_socle(fresh(brace))
    before = len(checked_induced)
    assert subject.sylow_components() == oracle_sylow_components(fresh(brace))
    subject.canonical_form()
    assert subject.retract_quotient() == oracle_retract_quotient(fresh(brace))
    assert len(checked_induced) > before

    solution = from_brace(subject)
    assert tuple_rows(solution.sigma) == tuple(map(tuple, subject._lambda_rows))
    assert tuple_rows(solution.tau) == circle_tau(subject)
    assert retract_solution(solution) == one_pass_retract_solution(solution)
    assert_tower_kernels_agree(solution)


def solution_kernels(sigma, tau):
    """The verdicts of both solution kernels and of their oracles on the
    tables, as ((involutive, failure), (oracle involutive, oracle failure))."""
    n = len(sigma)
    rows, tau_rows = [bytes(row) for row in sigma], [bytes(row) for row in tau]
    inverses = [bytes.maketrans(row, bytes(range(n)))[:n] for row in rows]
    return (
        (solutions_module._rows_involutive(rows, tau_rows, inverses),
         solutions_module._cycle_set_failure(rows, inverses)),
        (zip_rows_involutive(rows, tau_rows, inverses),
         pairwise_cycle_set_failure(rows, inverses)),
    )


def assert_tower_kernels_agree(solution):
    """Both kernels accept every stage of the retraction tower, as their
    oracles do."""
    while True:
        got, want = solution_kernels(solution.sigma, solution.tau)
        assert got == want == (True, None)
        retract = retract_solution(solution)
        if retract.size == solution.size:
            return
        solution = retract


def distinct_composites(rows) -> int:
    pad = bytes(MAX_TABLE_ORDER - len(rows))
    return len({first.translate(second + pad) for first in rows for second in rows})


@st.composite
def permutation_rows(draw, min_size=1, pooled=True):
    """Random tau rows, and sigma rows on n <= 40 points: random
    permutations, each drawn anew or, if pooled, from a pool of 1 to n."""
    n = draw(st.integers(min_size, 40))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = [rng.sample(range(n), n) for _ in range(draw(st.integers(1, n)) if pooled else n)]
    sigma = [rng.choice(pool) for _ in range(n)] if pooled else pool
    return sigma, [rng.sample(range(n), n) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(permutation_rows())
def test_solution_kernels_on_random_rows(tables):
    got, want = solution_kernels(*tables)
    assert got == want


@settings(max_examples=50, deadline=None)
@given(permutation_rows(min_size=17, pooled=False))
def test_cycle_set_kernel_past_256_composites(tables):
    sigma, tau = tables
    # ids of the composites pass one byte, so the high plane is not zero
    assert distinct_composites([bytes(row) for row in sigma]) > 256
    got, want = solution_kernels(sigma, tau)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solution_kernels_on_swapped_census_rows(census, data):
    order = data.draw(st.integers(2, 24).filter(lambda n: n != 16))
    solution = from_brace(data.draw(st.sampled_from(census(order).classes)))
    x = data.draw(st.integers(0, order - 1))
    i, j = data.draw(st.lists(st.integers(0, order - 1), min_size=2, max_size=2, unique=True))
    sigma = [list(row) for row in solution.sigma]
    sigma[x][i], sigma[x][j] = sigma[x][j], sigma[x][i]
    got, want = solution_kernels(sigma, solution.tau)
    assert got == want


def test_cycle_set_failure_seen_only_in_the_high_plane():
    """On 40 points, sigma_0, sigma_38 and sigma_39 are the identity, and
    rows 1-37 are distinct random permutations, each fixing 0 but row 7,
    which sends 4 to 0.  So (0, y) fails only at y = 7, where
    sigma_0 sigma_{0.7} = sigma_7 and sigma_7 sigma_{7.0} = sigma_7 sigma_4.
    Numbered by first appearance over the class pairs, the 38 rows get ids
    0-37 and sigma_i sigma_j, for i, j >= 1, id 37i + j: 7 and 263, the same
    low byte."""
    n, rng = 40, random.Random(3)
    sigma = [list(range(n))]
    for y in range(1, n - 2):
        row = [0] + rng.sample(range(1, n), n - 1)
        if y == 7:
            row[0], row[4] = row[4], row[0]
        sigma.append(row)
    sigma += [list(range(n))] * 2
    assert distinct_composites([bytes(row) for row in sigma]) == 38 + 37 * 37
    tau = [list(range(n))] * n
    got, want = solution_kernels(sigma, tau)
    assert got == want == (False, "at (0, 7)")


def test_solution_kernels_on_empty_and_one_point_tables():
    assert solution_kernels([], []) == ((True, None), (True, None))
    assert solution_kernels([[0]], [[0]]) == ((True, None), (True, None))


@pytest.mark.parametrize("order", ORDERS)
def test_census_classes(census, order, checked_induced):
    for brace in census(order).classes:
        assert_kernels_agree(brace, checked_induced)


def assert_derived_braces_agree(brace):
    """The retraction tower, the Sylow components with their towers, and
    the canonical form, each equal to the brace the oracles validate anew."""

    def towers_agree(subject, oracle):
        level = 0
        while subject.order > 1 and not subject.socle().is_zero():
            subject, oracle = subject.retract_quotient(), oracle_retract_quotient(oracle)
            assert subject == oracle
            level += 1
        if subject.order > 1:
            # a zero socle: the quotient is the stage again, on canonical factors
            assert subject.retract_quotient() == oracle_retract_quotient(oracle)
            level = None
        return level

    subject = fresh(brace)
    assert towers_agree(subject, fresh(brace)) == subject.multipermutation_level()
    components = subject.sylow_components()
    assert components == oracle_sylow_components(fresh(brace))
    for comp in components:
        assert towers_agree(comp.brace, fresh(comp.brace)) == comp.brace.multipermutation_level()
    if brace_module._is_chain(brace.additive.factors):
        assert subject.canonical_form() is subject
    else:
        n = brace.order
        assert subject.canonical_form() == oracle_induced(brace, range(n), range(n))[0]


@pytest.mark.parametrize("order", ORDERS)
def test_derived_census_braces_equal_the_oracles(census, order):
    for brace in census(order).classes:
        assert_derived_braces_agree(brace)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_derived_product_braces_equal_the_oracles(census, seed):
    for op in file_ops(census, seed):
        assert_derived_braces_agree(build(op))


@pytest.mark.parametrize("order", [25, 27, 49])
def test_sylow_components_of_prime_power_orders(census, order):
    for brace in census(order).classes:
        assert brace.sylow_components() == oracle_sylow_components(fresh(brace))


@pytest.fixture
def checked_semidirect(monkeypatch):
    """products.semidirect, its table compared with the oracle's on every
    call, wreath's nontrivial actions included."""
    calls = []
    real = products_module.semidirect

    def checked(target, acting, maps=None, max_order=products_module.DEFAULT_BRACE_BOUND):
        got = real(target, acting, maps, max_order)
        if maps is None:
            maps = identity_action(acting, target)
        table = oracle_semidirect_table(target, acting, maps)
        assert tuple_rows(got.circle_table) == tuple(map(tuple, table))
        calls.append(any(m != maps[0] for m in maps))
        return got

    monkeypatch.setattr(products_module, "semidirect", checked)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_file_products(census, seed, checked_semidirect, checked_induced):
    orders = []
    for kind, first, second in file_ops(census, seed):
        if kind == "semidirect":
            product = products_module.semidirect(first, second)
        else:
            product = wreath(first, second)
        assert_kernels_agree(product, checked_induced)
        orders.append(product.order)
    assert sorted(orders) == [48] * 9 + [64] * 11
    # the wreath products' last semidirect step has a nontrivial action
    assert sum(checked_semidirect) >= 2


def assert_nonadditive_generators_agree(brace):
    """On the lambda rows, additive, the dot columns, often not, and each
    lambda row with its entry at each generator moved by one."""
    gens = brace.additive.generators()
    rows = list(brace._lambda_rows) + columns(brace._dot_rows)
    for lam in brace._lambda_rows:
        for g in gens:
            moved = bytearray(lam)
            moved[g] = (lam[g] + 1) % brace.order
            rows.append(bytes(moved))
    got = list(brace_module._nonadditive_generators(brace.additive, rows))
    assert got == list(per_generator_nonadditive(brace.additive, rows))
    n = brace.order
    assert got[:n] == [None] * n
    # a moved entry breaks additivity, except on Z/2, where it gives the zero map
    assert None not in got[2 * n:] or n <= 2


@pytest.mark.parametrize("order", ORDERS)
def test_nonadditive_generators_on_census_classes(census, order):
    for brace in census(order).classes:
        assert_nonadditive_generators_agree(brace)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nonadditive_generators_on_file_products(census, seed):
    for op in file_ops(census, seed):
        assert_nonadditive_generators_agree(build(op))


def test_file_product_documents_are_pinned(census):
    """The brace and solution documents of the file benchmark's products for
    seeds 1-3, as the entry-by-entry kernels wrote them."""
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for op in file_ops(census, seed):
            product = build(op)
            digest.update(serialize_brace_document(BraceDocument.from_brace(product)).encode())
            solution = from_brace(product)
            digest.update(serialize_solution_document(SolutionDocument.from_solution(solution)).encode())
    assert digest.hexdigest() == (
        "caf2d7e61ead2ba76bcf323fb02f9d1b2090ec4c6a8df97a4face54b039b08a6"
    )


def test_classify_on_corrupted_dot_tables(census):
    rng = random.Random(5)
    subjects = []
    for order in range(2, 13):
        for brace in census(order).classes:
            for _ in range(3):
                entries = {
                    (rng.randrange(order), rng.randrange(order)): rng.randrange(order)
                    for _ in range(rng.randint(1, 3))
                }
                subjects.append((brace, entries))
    # on (2,2), a biadditive dot product that is not associative
    entries = {
        (u, v): 2 * ((u & 1) * (v >> 1)) + (u >> 1) * (v >> 1) for u in range(4) for v in range(4)
    }
    subjects.append((LeftBrace.trivial(make_group((2, 2))), entries))
    verdicts = set()
    for brace, entries in subjects:
        got = outcome(with_dot_entries(fresh(brace), entries).classify)
        assert got == outcome(oracle_classify, with_dot_entries(fresh(brace), entries))
        verdicts.add(got[0] if got[0] != "ok" else (got[1].is_two_sided, got[1].minus_rule))
    assert {(True, True), (False, False), (False, True)} <= verdicts
    assert InternalCheckError in verdicts


def test_no_reader_builds_the_tuple_dot_table(census):
    """The invariants of analyze, every law check and the solution read the
    dot table as byte rows; its tuple view is never built for them."""
    subjects = [brace for order in range(1, 13) for brace in census(order).classes]
    subjects += [build(op) for op in file_ops(census, 1)]
    for brace in subjects:
        subject = fresh(brace)
        _analysis(subject)
        run_brace_checks(subject)
        from_brace(subject)
        assert "_dot_rows" in subject.__dict__
        assert "dot_table" not in subject.__dict__


def test_socle_on_corrupted_dot_tables(census):
    """socle() raises wherever the oracle's element loops raise, and agrees
    with them wherever both pass; an empty socle, which the loops let
    through, raises too.  Each of its four checks rejects some table."""
    rng = random.Random(7)
    verdicts, messages = collections.Counter(), set()
    for order in range(2, 13):
        for brace in census(order).classes:
            for _ in range(30):
                entries = {}
                for _ in range(rng.randint(1, 3)):
                    # a zero now and then adds a zero dot row
                    value = 0 if rng.random() < 0.3 else rng.randrange(order)
                    entries[rng.randrange(order), rng.randrange(order)] = value
                want = outcome(oracle_socle, with_dot_entries(fresh(brace), entries))
                if want == ("ok", frozenset()):
                    want = ("empty",)
                got = outcome(lambda b: b.socle().members, with_dot_entries(fresh(brace), entries))
                if want[0] == "ok":
                    assert got == want
                else:
                    assert got[0] is InternalCheckError
                    messages.add(got[1].split(" at ")[0].split(" differ")[0])
                verdicts[got[0], want[0]] += 1
    assert verdicts == {
        ("ok", "ok"): 744,
        (InternalCheckError, InternalCheckError): 863,
        (InternalCheckError, "empty"): 13,
    }
    assert messages == {
        "socle and the class of 0",
        "induced addition table depends on coset representatives",
        "induced circle table depends on coset representatives",
        "socle not lambda-invariant",
    }


def test_retract_quotient_with_forced_socles(census):
    rng = random.Random(3)
    seen = set()
    for order in range(2, 13):
        for brace in census(order).classes:
            add = brace.additive.add_rows()
            soc = additive_closure(add, [rng.randrange(order)])
            subjects = [fresh(brace), fresh(brace)]
            for subject in subjects:
                subject.__dict__["_socle"] = soc
            got = outcome(subjects[0].retract_quotient)
            assert got == outcome(oracle_retract_quotient, subjects[1])
            seen.add(got[0])
    assert len(seen) == 2


def test_nilpotency_refuses_degree_past_table_order():
    n = MAX_TABLE_ORDER + 1
    with pytest.raises(ResourceLimitError, match=f"order {n} above {MAX_TABLE_ORDER}"):
        is_nilpotent_group(PermutationGroup(n, frozenset({tuple(range(n))})))


def test_retract_solution_on_unvalidated_tables():
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 7)
        pool = [rng.sample(range(n), n) for _ in range(rng.randint(1, 3))]
        sigma = tuple(tuple(rng.choice(pool)) for _ in range(n))
        tau = tuple(tuple(rng.sample(range(n), n)) for _ in range(n))
        solution = SetTheoreticSolution(n, sigma, tau)
        got = outcome(retract_solution, solution)
        assert got == outcome(one_pass_retract_solution, solution)
        seen.add(got[1].split(" table")[0] if got[0] != "ok" else "ok")
    assert {"ok", "induced sigma", "induced tau"} <= seen


SMALL_TYPES = [(2,), (3,), (4,), (2, 2), (5,), (6,), (2, 4), (8,), (2, 2, 2), (9,), (3, 3)]


@st.composite
def loop_tables(draw):
    """A group and a table with two-sided identity 0 and 0 in every row:
    random entries, or a census class relabeled by a bijection fixing 0."""
    factors = draw(st.sampled_from(SMALL_TYPES))
    n = math.prod(factors)
    group = make_group(factors)
    if draw(st.integers(0, 3)) == 0:
        classes = enumerate_braces(n).classes
        table = draw(st.sampled_from(classes)).circle_table
        pi = [0] + draw(st.permutations(range(1, n)))
        inv = [pi.index(i) for i in range(n)]
        return group, [[pi[table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
    rows = [list(range(n))]
    for a in range(1, n):
        row = [a] + draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1))
        if 0 not in row:
            row[draw(st.integers(1, n - 1))] = 0
        rows.append(row)
    return group, rows


@settings(max_examples=300, deadline=None)
@given(loop_tables())
def test_validate_brace_agrees_on_loop_tables(case):
    group, table = case
    got = outcome(validate_brace, group, table)
    assert got == outcome(oracle_validate_brace, group, table)
    rows = [bytes(row) for row in table]
    gens = left_generators(rows)
    covered, frontier = {0}, [0]
    while frontier:
        new = {table[g][x] for g in gens for x in frontier} - covered
        covered |= new
        frontier = list(new)
    assert covered == set(range(len(table)))
    new_verdict = brace_module._brace_row_failure(group, rows) is None
    assert new_verdict == (oracle_row_failure(group, table) is None)
    assert new_verdict == (got[0] == "ok")
