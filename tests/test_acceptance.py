"""Acceptance gate: twelve operational criteria, one verdict line each.

Each test prints "[acceptance] criterion NN name: PASS/FAIL" (visible with
pytest -s, or in the failure report).  Stated runtime budgets are part of
the criterion and failing them fails the test.  Expected values follow the
oracle discipline: counts and identities are recomputed in-test from
first principles wherever a second route exists.
"""

import json
import math
import random
import time

import pytest

from bracelab import (
    LeftBrace,
    are_isomorphic,
    annihilation_exponent,
    enumerate_braces,
    make_action,
    make_group,
    mpl_solution,
    permutation_group_order,
    semidirect,
    trivial_action,
    wreath,
)
from bracelab.checks import PASS, check_sylow_annihilation
from bracelab.cli import main
from bracelab.numutil import prime_factorization
from bracelab.solutions import from_brace
from abelian_oracle import scale


def conclude(num, name, violations, started, budget=None):
    """Print the verdict line for one criterion and assert it."""
    elapsed = time.monotonic() - started
    violations = [str(v) for v in violations]
    if budget is not None and elapsed > budget:
        violations.append(f"runtime {elapsed:.1f}s exceeds the {budget}s budget")
    status = "PASS" if not violations else "FAIL"
    line = f"[acceptance] criterion {num} {name}: {status} ({elapsed:.1f}s)"
    if violations:
        shown = "; ".join(violations[:4])
        if len(violations) > 4:
            shown += f"; and {len(violations) - 4} more"
        line += ": " + shown
    print(line)
    assert not violations, line


def cubefree(n: int) -> bool:
    return all(e < 3 for e in prime_factorization(n).values())


def test_c01_census_counts_prime_and_prime_square(capsys):
    # counts come out of the command line, not the library call, so the
    # full document path is on the hook as well
    started = time.monotonic()
    expected = {4: 4, 9: 4, 1: 1, 2: 1, 3: 1, 5: 1, 7: 1}
    violations = []
    for order, count in expected.items():
        rc = main(["enumerate", "--order", str(order)])
        out = capsys.readouterr().out
        want = f"order {order}: {count} {'class' if count == 1 else 'classes'}\n"
        if rc != 0 or out != want:
            violations.append(f"order {order}: rc={rc} output {out!r}, wanted {want!r}")
    with capsys.disabled():
        conclude("01", "census-counts-prime-and-square", violations, started, budget=30)


def test_c02_order_45_census_and_sylow_direct_sums(census):
    started = time.monotonic()
    violations = []
    entries = census(45).entries
    if len(entries) != 4:
        violations.append(f"order 45 has {len(entries)} classes, expected 4")
    for idx, entry in enumerate(entries):
        comps = entry.brace.sylow_components()
        orders = sorted(c.prime**c.exponent for c in comps)
        if orders != [5, 9]:
            violations.append(f"entry {idx}: sylow orders {orders}")
            continue
        rebuilt = semidirect(
            comps[0].brace,
            comps[1].brace,
            trivial_action(comps[1].brace, comps[0].brace),
            max_order=45,
        )
        if not are_isomorphic(rebuilt, entry.brace):
            violations.append(f"entry {idx} is not the direct sum of its sylow parts")
    conclude("02", "order-45-sylow-direct-sums", violations, started, budget=600)


def test_c03_finite_level_orders_6_8_12(census):
    """The paper's theorem over every census class of orders 6, 8 and 12:
    if |G(X,r)| is cube-free, the solution (X,r) is multipermutation, so
    the brace it comes from has finite multipermutation level.

    The hypothesis is computed on the solution route: the order of the
    permutation group of from_brace(brace).  Its generators sigma_x are the
    lambda maps, so |G(X,r)| = |A| / |Soc(A)| divides |A|.  Orders 6 and 12
    are cube-free, hence so is every divisor, and the hypothesis must hold
    for every class there.  Order 8 = 2^3 is not cube-free: |G(X,r)| = 8
    exactly when the socle is trivial, and the order-8 census has exactly
    two such classes, entries 7 (type 2x2x2) and 16 (type 2x4).  The paper
    promises nothing about them, and indeed their retraction towers never
    shrink.  They are asserted by index, not skipped; that they are genuine
    is shown from first principles in tests/test_census.py
    (TestOrderEightExceptions) and, for type 2x4, by the independent
    enumeration route in the slow-marked test_type_two_four_oracle_full.
    The cube-free order 36 is covered by test_c03_slow_finite_level_order_36.
    """
    started = time.monotonic()
    violations = []
    not_met = {}
    for order in (6, 8, 12):
        for idx, entry in enumerate(census(order).entries):
            brace = entry.brace
            label = "x".join(str(d) for d in entry.invariant_factors)
            tag = f"order {order} entry {idx} (type {label})"
            g = permutation_group_order(from_brace(brace))
            if order % g:
                violations.append(f"{tag}: |G(X,r)| = {g} does not divide {order}")
            if not cubefree(g):
                if order == 8:
                    not_met[idx] = (entry.invariant_factors, brace.socle().size)
                else:
                    violations.append(f"{tag}: |G(X,r)| = {g} is not cube-free")
                continue
            if brace.multipermutation_level() is None:
                violations.append(
                    f"{tag}: |G(X,r)| = {g} is cube-free but there is no finite level"
                )
    expected = {7: ((2, 2, 2), 1), 16: ((2, 4), 1)}
    if not_met != expected:
        violations.append(
            "order-8 classes outside the hypothesis (entry: (type, socle size))"
            f" are {not_met}, expected {expected}"
        )
    conclude("03", "finite-level-orders-6-8-12", violations, started, budget=300)


@pytest.mark.slow
def test_c03_slow_finite_level_order_36(census):
    started = time.monotonic()
    violations = []
    for idx, entry in enumerate(census(36).entries):
        if entry.brace.multipermutation_level() is None:
            violations.append(f"order 36 entry {idx} has no finite level")
    conclude("03-slow", "finite-level-order-36", violations, started)


def test_c04_cubefree_socle_and_level(census):
    started = time.monotonic()
    violations = []
    orders = [n for n in range(2, 16) if cubefree(n)]
    assert orders == [2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15]
    for order in orders:
        for idx, entry in enumerate(census(order).entries):
            if entry.brace.socle().size <= 1:
                violations.append(f"order {order} entry {idx}: zero socle")
            elif entry.brace.multipermutation_level() is None:
                violations.append(f"order {order} entry {idx}: no finite level")
    conclude("04", "cubefree-socle-and-level", violations, started, budget=300)


def test_c05_cross_prime_annihilation_suite(census):
    started = time.monotonic()
    violations = []
    for order in (6, 10, 12, 14, 15):
        for idx, entry in enumerate(census(order).entries):
            report = check_sylow_annihilation(entry.brace, subject=f"{order}:{idx}")
            if report.verdict != PASS:
                violations.append(
                    f"{report.subject}: {report.verdict} witness={report.witness}"
                )
            # cross-validate the exponent by direct integer valuations
            comps = entry.brace.sylow_components()
            for left in comps:
                for right in comps:
                    if left.prime == right.prime:
                        continue
                    p, j = left.prime, left.exponent
                    q, m = right.prime, right.exponent
                    k_star = 0
                    for t in range(1, m + 1):
                        v, s = q**t - 1, 0
                        while v % p == 0:
                            v //= p
                            s += 1
                        k_star = max(k_star, s)
                    poly = annihilation_exponent(p, j, q, m)
                    if poly != min(j, k_star):
                        violations.append(
                            f"{order}:{idx}: exponent({p},{j},{q},{m}) = {poly},"
                            f" integer route gives {min(j, k_star)}"
                        )
    conclude("05", "cross-prime-annihilation", violations, started, budget=300)


def binomial_violations(brace, a, b, m):
    """Check both binomial expansions for one (a, b, m), from scratch."""
    out = []
    add = brace.additive.add_rows()
    group = brace.additive
    dot = brace.dot_table
    # left powers a, a.a, a.(a.a), ... and the mixed sequence e_i
    lefts = [None, a]
    for _ in range(m - 1):
        lefts.append(dot[a][lefts[-1]])
    seq = [b]
    for _ in range(m):
        seq.append(dot[a][seq[-1]])
    circ = 0
    for _ in range(m):
        circ = brace.circle_table[a][circ]
    acc = 0
    for i in range(1, m + 1):
        acc = add[acc][scale(group, math.comb(m, i), lefts[i])]
    if acc != circ:
        out.append(f"power expansion fails at a={a}, m={m}")
    acc = 0
    for i in range(1, m + 1):
        acc = add[acc][scale(group, math.comb(m, i), seq[i])]
    if acc != dot[circ][b]:
        out.append(f"mixed expansion fails at a={a}, b={b}, m={m}")
    return out


def test_c06_binomial_identities(census):
    started = time.monotonic()
    violations = []
    # exhaustive on every class of order <= 8
    for order in range(1, 9):
        for entry in census(order).entries:
            brace = entry.brace
            for a in range(order):
                for b in range(order):
                    for m in range(1, order + 1):
                        violations.extend(binomial_violations(brace, a, b, m))
    # 1000 seeded draws from the larger orders
    rng = random.Random(20260814)
    pool = []
    for order in range(9, 16):
        pool.extend(entry.brace for entry in census(order).entries)
    for _ in range(1000):
        brace = rng.choice(pool)
        a = rng.randrange(brace.order)
        b = rng.randrange(brace.order)
        m = rng.randint(1, brace.order)
        violations.extend(binomial_violations(brace, a, b, m))
    conclude("06", "binomial-identities", violations, started)


def test_c07_solution_round_trip(census):
    started = time.monotonic()
    violations = []
    for order in range(1, 13):
        for idx, entry in enumerate(census(order).entries):
            sol = from_brace(entry.brace)
            n = sol.size
            tag = f"order {order} entry {idx}"
            bad = [x for x in range(n)
                   if sorted(sol.sigma[x]) != list(range(n))
                   or sorted(sol.tau[x]) != list(range(n))]
            if bad:
                violations.append(f"{tag}: degenerate at {bad[0]}")
                continue

            def r(x, y):
                return sol.sigma[x][y], sol.tau[y][x]

            for x in range(n):
                for y in range(n):
                    if r(*r(x, y)) != (x, y):
                        violations.append(f"{tag}: not involutive at ({x},{y})")
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        a, b = r(x, y)
                        b2, c = r(b, z)
                        a2, b3 = r(a, b2)
                        lhs = (a2, b3, c)
                        b4, c2 = r(y, z)
                        a3, b5 = r(x, b4)
                        b6, c3 = r(b5, c2)
                        rhs = (a3, b6, c3)
                        if lhs != rhs:
                            violations.append(f"{tag}: braid fails at ({x},{y},{z})")
    conclude("07", "solution-round-trip", violations, started, budget=120)


def test_c08_finiteness_equivalence(census):
    started = time.monotonic()
    violations = []
    non_vacuous = 0
    for order in range(1, 13):
        for idx, entry in enumerate(census(order).entries):
            brace = entry.brace
            sol = from_brace(brace)
            brace_finite = brace.multipermutation_level() is not None
            sol_finite = mpl_solution(sol) is not None
            if brace_finite != sol_finite:
                violations.append(
                    f"order {order} entry {idx}: brace finite={brace_finite},"
                    f" solution finite={sol_finite}"
                )
            g = permutation_group_order(sol)
            if cubefree(g):
                non_vacuous += 1
                if not sol_finite:
                    violations.append(
                        f"order {order} entry {idx}: permutation group order {g}"
                        f" is cube-free but the solution does not retract to a point"
                    )
    if non_vacuous == 0:
        violations.append("cube-free permutation-group hypothesis never applied")
    conclude("08", "finiteness-equivalence", violations, started)


def test_c09_nilpotency_equivalence(census):
    started = time.monotonic()
    violations = []
    for order in range(1, 13):
        for idx, entry in enumerate(census(order).entries):
            traits = entry.brace.classify()
            if traits.adjoint_nilpotent != traits.is_left_nil:
                violations.append(
                    f"order {order} entry {idx}: adjoint nilpotent"
                    f" {traits.adjoint_nilpotent} but left-nil {traits.is_left_nil}"
                )
    conclude("09", "nilpotency-equivalence", violations, started)


def test_c10_odd_order_negation_rule(census):
    started = time.monotonic()
    violations = []
    applied = 0
    for order in (9, 15):
        for idx, entry in enumerate(census(order).entries):
            traits = entry.brace.classify()
            if not traits.minus_rule:
                continue
            applied += 1
            if not traits.is_two_sided:
                violations.append(f"order {order} entry {idx}: not two-sided")
            elif not traits.ring_nilpotent:
                violations.append(f"order {order} entry {idx}: ring not nilpotent")
    if applied == 0:
        violations.append("negation rule never applied, criterion is vacuous")
    conclude("10", "odd-order-negation-rule", violations, started)


def test_c11_polynomial_exponent_oracle():
    started = time.monotonic()
    violations = []
    primes = (2, 3, 5, 7)
    for p in primes:
        for q in primes:
            if p == q:
                continue
            for j in range(1, 4):
                for m in range(1, 3):
                    k_star = 0
                    for t in range(1, m + 1):
                        v, s = q**t - 1, 0
                        while v % p == 0:
                            v //= p
                            s += 1
                        k_star = max(k_star, s)
                    got = annihilation_exponent(p, j, q, m)
                    want = min(j, k_star)
                    if got != want:
                        violations.append(f"({p},{j},{q},{m}): {got} != {want}")
    conclude("11", "polynomial-exponent-oracle", violations, started, budget=5)


def test_c12_product_lemmas(census):
    started = time.monotonic()
    violations = []
    t2 = LeftBrace.trivial(make_group((2,)))
    t3 = LeftBrace.trivial(make_group((3,)))
    t4 = LeftBrace.trivial(make_group((4,)))
    t5 = LeftBrace.trivial(make_group((5,)))
    t6 = LeftBrace.trivial(make_group((6,)))
    t7 = LeftBrace.trivial(make_group((7,)))
    klein = LeftBrace.trivial(make_group((2, 2)))
    b4 = census(4).entries[2].brace  # nontrivial brace on Z4
    zs8 = census(8).entries[16].brace  # trivial socle, no finite level

    def neg(brace):
        return tuple(brace.additive.neg(a) for a in range(brace.order))

    ident = tuple(range(3))
    instances = [
        ("s3-adjoint", t3, t2, (ident, (0, 2, 1))),
        ("z3-direct-z2", t3, t2, None),
        ("z4-by-negation", t4, t2, (tuple(range(4)), neg(t4))),
        ("klein-by-3-cycle", klein, t3, ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))),
        ("nontrivial-target", b4, t2, (tuple(range(4)), neg(t4))),
        ("z5-by-negation", t5, t2, (tuple(range(5)), neg(t5))),
        ("z7-by-negation", t7, t2, (tuple(range(7)), neg(t7))),
        ("z6-by-negation", t6, t2, (tuple(range(6)), neg(t6))),
        ("nontrivial-acting", t3, b4, (ident, (0, 2, 1), ident, (0, 2, 1))),
        ("klein-swap", klein, t2, ((0, 1, 2, 3), (0, 2, 1, 3))),
        ("two-by-two", t2, t2, None),
        ("infinite-target", zs8, t2, None),
    ]
    built = 0
    for name, target, acting, maps in instances:
        if maps is None:
            action = trivial_action(acting, target)
        else:
            action = make_action(acting, target, maps)
        product = semidirect(target, acting, action, max_order=16)
        built += 1
        finite_w = product.multipermutation_level() is not None
        finite_n = target.multipermutation_level() is not None
        finite_h = acting.multipermutation_level() is not None
        if finite_w != (finite_n and finite_h):
            violations.append(
                f"{name}: product finite={finite_w} but factors"
                f" finite=({finite_n},{finite_h})"
            )
        iw = product.radical_chain_index()
        i_n = target.radical_chain_index()
        ih = acting.radical_chain_index()
        if None not in (iw, i_n, ih) and iw > i_n + ih:
            violations.append(f"{name}: chain index {iw} > {i_n} + {ih}")
        if finite_n and finite_h and iw is None:
            violations.append(f"{name}: finite factors but unbounded chain")

    w = wreath(t2, t2, max_order=16)
    built += 1
    if w.order != 8:
        violations.append(f"wreath order {w.order} != 8")
    if w.multipermutation_level() is None:
        violations.append("wreath of one-step factors has no finite level")
    if built < 10:
        violations.append(f"only {built} instances built, need at least 10")

    # the required instances really are the advertised braces
    s3 = semidirect(t3, t2, make_action(t2, t3, (ident, (0, 2, 1))), max_order=16)
    if sorted(s3.adjoint_order_profile()) != [1, 2, 2, 2, 3, 3]:
        violations.append("s3-adjoint instance has the wrong adjoint group")
    if not any(are_isomorphic(w, e.brace) for e in census(8).entries):
        violations.append("wreath instance missing from the order-8 census")
    conclude("12", "product-lemmas", violations, started)
