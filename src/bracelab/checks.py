"""Executable verifiers for the structural laws of finite left braces.

Every checker takes a brace and returns a CheckReport.  A fail verdict
always carries a concrete witness tuple; hypothesis-not-met means the
statement's arithmetic preconditions do not apply to this brace, which is
different from the statement holding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .abelian import MAX_TABLE_ORDER, multiples_of
from .brace import LeftBrace, _nonadditive_generators
from .census import enumerate_braces
from .errors import InternalCheckError
from .fqpoly import annihilation_exponent
from .numutil import prime_factorization

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"


@dataclass(frozen=True)
class CheckReport:
    check: str
    subject: str
    verdict: str
    witness: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL

    def __post_init__(self):
        if self.verdict == FAIL and not self.witness:
            raise InternalCheckError("fail verdict requires a witness")


def _report(check: str, subject: str, verdict: str, witness=(), notes=()) -> CheckReport:
    return CheckReport(check, subject, verdict, tuple(witness), tuple(notes))


def _prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k and k >= 1, or None."""
    if n < 2:
        return None
    factors = prime_factorization(n)
    if len(factors) != 1:
        return None
    p, k = next(iter(factors.items()))
    return p, k


def check_sylow_annihilation(brace: LeftBrace, subject: str = "") -> CheckReport:
    """Cross-prime products must vanish after the divisibility-driven circle
    power; when no power of the acting prime divides any q^t - 1 that power
    is p^0, and the raw products vanish outright.  The exponent is cross-validated against the
    field-polynomial computation."""
    name = "sylow-annihilation"
    components = brace.sylow_components()
    if len(components) < 2:
        return _report(name, subject, HYPOTHESIS_NOT_MET, notes=("single prime",))
    dot = brace._dot_rows
    cycles = brace._circle_cycles
    notes = []
    for left in components:
        p, n_exp = left.prime, left.exponent
        left_members = frozenset(left.members)
        for right in components:
            if right.prime == p:
                continue
            q, m = right.prime, right.exponent
            k = _residue_valuation(p, q, m)
            poly_k = annihilation_exponent(p, n_exp, q, m)
            if poly_k != min(n_exp, k):
                return _report(
                    name, subject, FAIL, witness=(p, n_exp, q, m),
                    notes=(
                        f"field-polynomial exponent {poly_k} disagrees with"
                        f" integer divisibility {min(n_exp, k)}",
                    ),
                )
            pk = p**k
            # one pass over every a: a left member names the first witness,
            # any other a only settles the literal quantification
            literal = True
            for a, cycle in enumerate(cycles):
                apk_row = dot[cycle[pk % len(cycle)]]
                b = next((b for b in right.members if apk_row[b] != 0), None)
                if b is not None and a in left_members:
                    note = (
                        f"circle power p^{k} of {a} does not kill {b}" if k
                        else f"p={p} divides no q^t-1 yet a.b != 0"
                    )
                    return _report(
                        name, subject, FAIL, witness=(a, b), notes=(note,)
                    )
                literal = literal and b is None
            notes.append(
                f"p={p},q={q}: literal all-elements quantification"
                f" {'holds' if literal else 'fails'}"
            )
    return _report(name, subject, PASS, notes=notes)


def check_cubefree_socle(brace: LeftBrace, subject: str = "") -> CheckReport:
    """Cube-free order forces a nonzero socle and a finite level."""
    name = "cubefree-socle"
    n = brace.order
    if n == 1:
        return _report(name, subject, PASS, notes=("one-point brace",))
    if any(a >= 3 for a in prime_factorization(n).values()):
        return _report(name, subject, HYPOTHESIS_NOT_MET, notes=("order not cube-free",))
    if brace.socle().is_zero():
        return _report(name, subject, FAIL, witness=(0,), notes=("zero socle",))
    if brace.multipermutation_level() is None:
        return _report(name, subject, FAIL, witness=(0,), notes=("infinite level",))
    return _report(name, subject, PASS)


def _residue_valuation(p: int, q: int, m: int) -> int:
    """The largest k with p^k dividing some q^t - 1, 1 <= t <= m; 0 if none."""
    k = 0
    for t in range(1, m + 1):
        v = q**t - 1
        s = 0
        while v % p == 0:
            v //= p
            s += 1
        k = max(k, s)
    return k


def _socle_lift_hypothesis(brace: LeftBrace, components) -> list[int]:
    """Indices of components whose socle lifts: nonzero component socle and
    the component prime divides no p_j^i - 1 over all component primes."""
    return [
        idx
        for idx, comp in enumerate(components)
        if not comp.brace.socle().is_zero()
        and not any(
            _residue_valuation(comp.prime, other.prime, other.exponent) > 0
            for other in components
        )
    ]


def _ordering_hypothesis(components) -> bool:
    """Some ordering puts every prime after all primes whose power residues
    it divides: greedily pick a remaining prime dividing no p_k^t - 1 of the
    other remaining ones."""
    remaining = list(components)
    while remaining:
        for idx, comp in enumerate(remaining):
            if not any(
                _residue_valuation(comp.prime, other.prime, other.exponent) > 0
                for other in remaining
                if other is not comp
            ):
                remaining.pop(idx)
                break
        else:
            return False
    return True


def check_level_criteria(brace: LeftBrace, subject: str = "") -> CheckReport:
    """Three sufficient conditions for a nonzero socle or finite level,
    driven by the Sylow data."""
    name = "level-criteria"
    n = brace.order
    if n == 1:
        return _report(name, subject, PASS, notes=("one-point brace",))
    components = brace.sylow_components()
    applied = []

    lifting = _socle_lift_hypothesis(brace, components)
    if lifting:
        applied.append("socle-lifting")
        if brace.socle().is_zero():
            return _report(
                name, subject, FAIL, witness=(components[lifting[0]].prime,),
                notes=("socle-lifting hypothesis met but socle is zero",),
            )

    if _ordering_hypothesis(components):
        if all(c.brace.multipermutation_level() is not None for c in components):
            applied.append("ordered-primes")
            if brace.multipermutation_level() is None:
                return _report(
                    name, subject, FAIL, witness=(n,),
                    notes=("ordered-primes hypothesis met but level is infinite",),
                )

    # a component is square-zero exactly when its socle is all of it
    cyclic_square_zero = all(
        len(c.brace.additive.factors) <= 1 and c.brace.socle().size == c.size
        for c in components
    )
    if cyclic_square_zero:
        applied.append("cyclic-square-zero")
        if brace.multipermutation_level() is None:
            return _report(
                name, subject, FAIL, witness=(n,),
                notes=("cyclic-square-zero hypothesis met but level is infinite",),
            )

    if not applied:
        return _report(name, subject, HYPOTHESIS_NOT_MET)
    return _report(name, subject, PASS, notes=tuple(applied))


def check_nilpotency_equivalence(brace: LeftBrace, subject: str = "") -> CheckReport:
    """Adjoint nilpotency must match vanishing left powers, and a vanishing
    left power of a cross-prime sum forces both products to vanish."""
    name = "nilpotency-equivalence"
    traits = brace.classify()
    if traits.adjoint_nilpotent != traits.is_left_nil:
        return _report(
            name, subject, FAIL, witness=(brace.order,),
            notes=(
                f"adjoint nilpotent: {traits.adjoint_nilpotent},"
                f" left powers vanish: {traits.is_left_nil}",
            ),
        )
    add = brace.additive.add_lookups()
    dot = brace._dot_rows
    steps = brace._left_power_steps
    components = brace.sylow_components()
    for comp_a in components:
        for comp_b in components:
            if comp_a.prime == comp_b.prime:
                continue
            for a in comp_a.members:
                for b in comp_b.members:
                    if steps[add[a][b]] is not None and (dot[a][b] != 0 or dot[b][a] != 0):
                        return _report(
                            name, subject, FAIL, witness=(a, b),
                            notes=("nilpotent cross-prime sum with nonzero product",),
                        )
    return _report(name, subject, PASS)


def check_odd_minus_rule(brace: LeftBrace, subject: str = "") -> CheckReport:
    """Odd order plus the negation rule forces a two-sided brace whose
    associated ring is nilpotent."""
    name = "odd-minus-rule"
    if brace.order % 2 == 0:
        return _report(name, subject, HYPOTHESIS_NOT_MET, notes=("even order",))
    traits = brace.classify()
    if not traits.minus_rule:
        return _report(name, subject, HYPOTHESIS_NOT_MET, notes=("negation rule fails",))
    if not traits.is_two_sided:
        return _report(
            name, subject, FAIL, witness=(brace.order,), notes=("not two-sided",)
        )
    if not traits.ring_nilpotent:
        return _report(
            name, subject, FAIL, witness=(brace.order,), notes=("ring not nilpotent",)
        )
    return _report(name, subject, PASS)


def check_power_identities(brace: LeftBrace, subject: str = "") -> CheckReport:
    """The binomial expansions of circle powers, their vanishing equivalence
    at prime powers, and the coprime square-kill implication.

    The circle power a^m should be the sum S_m of C(m, i) copies of the
    left powers e_1 = a, e_{i+1} = a.e_i.  The dotted expansion
    a^m . b = sum_i C(m, i) e_i(a, b) is checked through its Pascal
    recurrence B_0 = 0, B_m = B_{m-1} + a.B_{m-1} + a.b, which needs only
    left distributivity; validate_brace has already checked that.  Byte
    rows decide both.  With lambda_x(b) = b + x.b, the brace's lambda rows,
    an additive lambda_a turns Pascal's rule into S_m = a + lambda_a(S_{m-1})
    and B_m(b) + b = lambda_a^m(b), while a^m.b + b = lambda_{a^m}(b).  So
    both expansions hold for every b and m exactly when the walk lambda_a,
    lambda_a^2, ... meets a + lambda_a(a^{m-1}) = a^m and lambda_{a^m} at
    each m = 1..ord(a), for ord(a) the circle order of a.  At m = ord(a)
    the walk has reached lambda_0 = id and a^m = 0, so every later m repeats
    an earlier one: ord(a) translates per a, not n^2 steps.  That needs
    lambda_0 = id, which validate_brace guarantees; a brace whose lambda_0
    is not the identity (a corrupted dot table) is walked to m = n.
    Additivity is checked on the additive generators, by validate_brace's
    test.  Only an a whose walk fails, or whose lambda_a is not additive, is
    scanned sum by sum and b by b (_scan_dotted_expansion): to name the
    witness, or for a non-additive lambda_a to decide.
    """
    name = "power-identities"
    n = brace.order
    add = brace.additive.add_lookups()
    dot = brace._dot_rows
    prime_power_m = [_prime_power(m) is not None for m in range(n + 1)]
    pad = bytes(MAX_TABLE_ORDER - n)
    lambdas = brace._lambda_rows
    identity = bytes(range(n))
    periodic = lambdas[0] == identity

    cycles = brace._circle_cycles
    nonadditive = _nonadditive_generators(brace.additive, lambdas)
    for a, (lam, bad_generator, cycle) in enumerate(zip(lambdas, nonadditive, cycles)):
        order = len(cycle)
        additive = bad_generator is None
        if additive:
            lam_lookup = lam + pad
            add_a = add[a]
            walk = identity
            previous = 0
            for m in range(1, (order if periodic else n) + 1):
                walk = walk.translate(lam_lookup)
                power = cycle[m % order]
                if add_a[lam[previous]] != power or walk != lambdas[power]:
                    break
                previous = power
            else:
                continue
        powers = [cycle[m % order] for m in range(n + 1)]
        failure = _scan_dotted_expansion(add, dot, a, powers, prime_power_m)
        if failure is not None:
            witness, note = failure
            return _report(name, subject, FAIL, witness=witness, notes=(note,))
        if additive:
            raise InternalCheckError(
                f"row walk of lambda_{a} fails at power {m},"
                " but every sum and (b, m) passes"
            )

    # the prime of each nonzero element of prime-power additive order
    additive_prime = [None] * n
    for component in brace.sylow_components():
        for b in component.members[1:]:  # members ascend from 0
            additive_prime[b] = component.prime
    for a in range(n):
        pa = _prime_power(len(cycles[a]))
        if pa is None and a != 0:
            continue
        drow = dot[a]
        for b in range(n):
            q = additive_prime[b]
            if q is None:
                continue
            if pa is not None and pa[0] == q:
                continue
            if drow[drow[b]] == 0 and drow[b] != 0:
                return _report(
                    name, subject, FAIL, witness=(a, b),
                    notes=("square kill without product kill across primes",),
                )
    return _report(name, subject, PASS)


def _scan_dotted_expansion(add, dot, a: int, powers, prime_power_m):
    """Both expansions for one a: the first failing (a, m) or (a, b, m)
    and its note, or None.

    The circle power a^m is compared with its literal binomial sum for
    every m first; then the dotted expansion goes b by b through the
    Pascal recurrence.
    """
    drow = dot[a]
    n = len(drow)
    lefts = [a]
    for _ in range(n - 1):
        lefts.append(drow[lefts[-1]])
    multiples = [multiples_of(add, x) for x in lefts]
    for m in range(1, n + 1):
        acc = 0
        for i, mult in enumerate(multiples[:m], 1):
            acc = add[acc][mult[math.comb(m, i) % len(mult)]]
        if acc != powers[m]:
            return (a, m), "circle power binomial expansion fails"
    for b in range(n):
        ab = drow[b]
        acc = 0
        for m in range(1, n + 1):
            acc = add[add[acc][drow[acc]]][ab]
            target = dot[powers[m]][b]
            if prime_power_m[m] and (target == 0) != (acc == 0):
                return (a, b, m), "vanishing equivalence fails at a prime power"
            if acc != target:
                return (a, b, m), "dotted binomial expansion fails"
    return None


def observe_square_rule(brace: LeftBrace, subject: str = "") -> CheckReport:
    """Observational only: finite level plus left self-associativity of
    squares.  Records whether two-sidedness follows; never fails."""
    name = "square-rule-observation"
    # (a . a) . b = a . (a . b) for every b: dot row a.a is row a composed with itself
    pad = bytes(MAX_TABLE_ORDER - brace.order)
    rows = brace._dot_rows
    square_rule = all(rows[row[a]] == row.translate(row + pad) for a, row in enumerate(rows))
    if not square_rule:
        return _report(name, subject, HYPOTHESIS_NOT_MET, notes=("square rule fails",))
    if brace.multipermutation_level() is None:
        return _report(name, subject, HYPOTHESIS_NOT_MET, notes=("infinite level",))
    two_sided = brace.classify().is_two_sided
    return _report(
        name, subject, PASS,
        notes=(f"two-sidedness under the square rule: {two_sided}",),
    )


ALL_CHECKS = (
    check_sylow_annihilation,
    check_cubefree_socle,
    check_level_criteria,
    check_nilpotency_equivalence,
    check_odd_minus_rule,
    check_power_identities,
    observe_square_rule,
)


def run_brace_checks(brace: LeftBrace, subject: str = "") -> list[CheckReport]:
    return [check(brace, subject) for check in ALL_CHECKS]


def run_census_checks(orders, *, max_order: int | None = None) -> list[CheckReport]:
    """Run every checker over the censuses of the given orders.

    Subjects are labeled order:factors:index so reports stay stable across
    runs; the result is sorted by subject then check name.
    """
    reports: list[CheckReport] = []
    for order in orders:
        census = enumerate_braces(order, max_order=max_order)
        for idx, entry in enumerate(census.entries):
            label = "x".join(str(d) for d in entry.invariant_factors) or "1"
            subject = f"{order}:{label}:{idx}"
            reports.extend(run_brace_checks(entry.brace, subject))
    reports.sort(key=lambda r: (r.subject, r.check))
    return reports
