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
from .brace import LeftBrace
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
    power; when no power of the acting prime divides any q^t - 1 the raw
    products vanish outright.  The exponent is cross-validated against the
    field-polynomial computation."""
    name = "sylow-annihilation"
    components = brace.sylow_components()
    if len(components) < 2:
        return _report(name, subject, HYPOTHESIS_NOT_MET, notes=("single prime",))
    dot = brace.dot_table
    notes = []
    for left in components:
        p, n_exp = left.prime, left.exponent
        for right in components:
            if right.prime == p:
                continue
            q, m = right.prime, right.exponent
            k = _residue_valuation(p, q, m)
            if k == 0:
                for a in left.members:
                    for b in right.members:
                        if dot[a][b] != 0:
                            return _report(
                                name, subject, FAIL, witness=(a, b),
                                notes=(f"p={p} divides no q^t-1 yet a.b != 0",),
                            )
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
            powers = [brace.circle_power(a, pk) for a in range(brace.order)]
            for a in left.members:
                apk = powers[a]
                for b in right.members:
                    if dot[apk][b] != 0:
                        return _report(
                            name, subject, FAIL, witness=(a, b),
                            notes=(f"circle power p^{k} of {a} does not kill {b}",),
                        )
            literal = all(
                dot[apk][b] == 0 for apk in powers for b in right.members
            )
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

    cyclic_square_zero = all(
        len(c.brace.additive.factors) <= 1
        and all(
            c.brace.dot(a, b) == 0
            for a in range(c.brace.order)
            for b in range(c.brace.order)
        )
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
    add = brace.additive.add_rows()
    dot = brace.dot_table
    components = brace.sylow_components()
    n = brace.order
    for comp_a in components:
        for comp_b in components:
            if comp_a.prime == comp_b.prime:
                continue
            for a in comp_a.members:
                for b in comp_b.members:
                    s = add[a][b]
                    acc = s
                    vanished = False
                    for _ in range(n + 1):
                        if acc == 0:
                            vanished = True
                            break
                        acc = dot[s][acc]
                    if vanished and (dot[a][b] != 0 or dot[b][a] != 0):
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

    The circle power a^m is checked against the literal sum of C(m, i)
    copies of the left powers of a.  The dotted expansion
    a^m . b = sum_i C(m, i) e_i(a, b) is checked through its Pascal
    recurrence B_0 = 0, B_m = B_{m-1} + a.B_{m-1} + a.b, which needs only
    left distributivity; validate_brace has already checked that.  Byte
    rows decide it.  With lambda_x(b) = b + x.b built from the dot table,
    an additive lambda_a gives B_m(b) + b = lambda_a^m(b), and
    a^m.b + b = lambda_{a^m}(b), so the recurrence holds for every b and m
    exactly when the walk lambda_a, lambda_a^2, ... meets lambda_{a^m} at
    each m = 1..n: n translates per a, not n^2 steps.  Additivity is
    checked on the additive generators, as validate_brace does.  Only an a
    whose walk fails, or whose lambda_a is not additive, is scanned b by b
    (_scan_dotted_expansion): to name the witness, or for a non-additive
    lambda_a to decide.
    """
    name = "power-identities"
    n = brace.order
    add = brace.additive.add_rows()
    dot = brace.dot_table
    multiples = [multiples_of(add, x) for x in range(n)]
    binomials = [[math.comb(m, i) for i in range(m + 1)] for m in range(n + 1)]
    prime_power_m = [_prime_power(m) is not None for m in range(n + 1)]
    pad = bytes(MAX_TABLE_ORDER - n)
    add_lookups = [bytes(row) + pad for row in add]
    shifts = [(g, bytes(add[g])) for g in brace.additive.generators()]
    lambdas = [bytes([sums[d] for sums, d in zip(add, row)]) for row in dot]
    identity = bytes(range(n))

    for a in range(n):
        powers = [0]
        row = brace.circle_table[a]
        for _ in range(n):
            powers.append(row[powers[-1]])
        drow = dot[a]
        lefts = [None, a]
        for _ in range(n - 1):
            lefts.append(drow[lefts[-1]])
        for m in range(1, n + 1):
            coeffs = binomials[m]
            acc = 0
            for i in range(1, m + 1):
                mult = multiples[lefts[i]]
                acc = add[acc][mult[coeffs[i] % len(mult)]]
            if acc != powers[m]:
                return _report(
                    name, subject, FAIL, witness=(a, m),
                    notes=("circle power binomial expansion fails",),
                )
        lam = lambdas[a]
        lam_lookup = lam + pad
        additive = all(
            shift.translate(lam_lookup) == lam.translate(add_lookups[lam[g]])
            for g, shift in shifts
        )
        if additive:
            walk = identity
            for m in range(1, n + 1):
                walk = walk.translate(lam_lookup)
                if walk != lambdas[powers[m]]:
                    break
            else:
                continue
        failure = _scan_dotted_expansion(add, dot, a, powers, prime_power_m)
        if failure is not None:
            witness, note = failure
            return _report(name, subject, FAIL, witness=witness, notes=(note,))
        if additive:
            raise InternalCheckError(
                f"row walk of lambda_{a} fails at power {m}, but every (b, m) passes"
            )

    additive_pp = [_prime_power(len(multiples[b])) for b in range(n)]
    for a in range(n):
        pa = _prime_power(brace.circle_order(a))
        if pa is None and a != 0:
            continue
        drow = dot[a]
        for b in range(n):
            qb = additive_pp[b]
            if qb is None:
                continue
            if pa is not None and pa[0] == qb[0]:
                continue
            if drow[drow[b]] == 0 and drow[b] != 0:
                return _report(
                    name, subject, FAIL, witness=(a, b),
                    notes=("square kill without product kill across primes",),
                )
    return _report(name, subject, PASS)


def _scan_dotted_expansion(add, dot, a: int, powers, prime_power_m):
    """The dotted expansion for one a, b by b through the Pascal recurrence:
    the first failing (a, b, m) and its note, or None."""
    drow = dot[a]
    n = len(drow)
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
    n = brace.order
    dot = brace.dot_table
    square_rule = all(
        dot[dot[a][a]][b] == dot[a][dot[a][b]] for a in range(n) for b in range(n)
    )
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
