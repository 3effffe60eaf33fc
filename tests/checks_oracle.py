"""Literal versions of bracelab's checks, kept as references.

Each is slow but simple enough to trust, and the faster route in the
package must answer as it does on every input it is compared on:

- the power-identity check writes every binomial sum out literally: each
  term pays a digit-arithmetic ``scale`` and each (a, b) pair rebuilds its
  e-sequence, so one brace costs O(n^4); the route it was replaced by,
  which scans the dotted expansion's Pascal recurrence for every (a, b, m)
  in O(n^3), is kept too, for orders where O(n^4) is too slow; so is the
  lambda row walk as it first ran, to m = n for every a, where the package
  stops each walk at the circle order of a;
- the brace and solution validators check every law on every triple and
  raise the same exception class, message and witness as the package;
- adjoint nilpotency is decided by the lower central series, and
  two-sidedness on every triple;
- the nilpotency-equivalence check walks the left powers s, s.s,
  s.(s.s), ... of every cross-prime sum s afresh, where the package reads
  one walk per element cached on the brace;
- the cyclic-square-zero hypothesis of the level criteria scans every dot
  product of every Sylow component, where the package compares the size
  of the component's socle with its own;
- the additive closure adds every member to every other until nothing
  new appears, O(|H|^2) per subgroup H.

``left_power``, ``e_sequence`` and ``e_combination`` are helpers of the
brace tests and of the literal power-identity check; the package never
needed them.
"""

import math

from bracelab.abelian import MAX_TABLE_ORDER, closure
from bracelab.brace import LeftBrace, _nonadditive_generators
from bracelab.checks import FAIL, PASS, _prime_power, _report, _scan_dotted_expansion
from bracelab.errors import (
    BraidRelationError,
    CircleAssociativityError,
    CircleIdentityError,
    CircleInverseError,
    CompatibilityError,
    InternalCheckError,
    InvalidPresentationError,
    InvolutivityError,
    NonDegeneracyError,
)
from bracelab.solutions import SetTheoreticSolution
from abelian_oracle import compose_perms, identity_perm, invert_perm, is_permutation, scale


def oracle_power_identities(brace, subject: str = ""):
    """The binomial expansions of circle powers, their vanishing equivalence
    at prime powers, and the coprime square-kill implication."""
    n = brace.order
    add = brace.additive.add_rows()
    group = brace.additive

    def literal_sums(a, b):
        seq = e_sequence(brace, a, b, n)
        for m in range(1, n + 1):
            acc = 0
            for i in range(1, m + 1):
                acc = add[acc][scale(group, math.comb(m, i), seq[i])]
            yield acc

    return _power_identities(brace, subject, literal_sums)


def recurrence_power_identities(brace, subject: str = ""):
    """The same check with each dotted expansion computed through its Pascal
    recurrence B_m = B_{m-1} + a.B_{m-1} + a.b, one (a, b, m) at a time."""
    n = brace.order
    add = brace.additive.add_rows()
    dot = brace.dot_table

    def recurrence(a, b):
        acc = 0
        for _ in range(n):
            acc = add[add[acc][dot[a][acc]]][dot[a][b]]
            yield acc

    return _power_identities(brace, subject, recurrence)


def full_walk_power_identities(brace, subject: str = ""):
    """check_power_identities with every lambda row walk run to m = n, and
    each circle order found by a second walk."""
    name = "power-identities"
    n = brace.order
    add = brace.additive.add_rows()
    dot = brace.dot_table
    prime_power_m = [_prime_power(m) is not None for m in range(n + 1)]
    pad = bytes(MAX_TABLE_ORDER - n)
    lambdas = brace._lambda_rows
    identity = bytes(range(n))

    nonadditive = _nonadditive_generators(brace.additive, lambdas)
    for a, (lam, bad_generator) in enumerate(zip(lambdas, nonadditive)):
        powers = [0]
        row = brace.circle_table[a]
        for _ in range(n):
            powers.append(row[powers[-1]])
        additive = bad_generator is None
        if additive:
            lam_lookup = lam + pad
            walk = identity
            for m in range(1, n + 1):
                walk = walk.translate(lam_lookup)
                power = powers[m]
                if add[a][lam[powers[m - 1]]] != power or walk != lambdas[power]:
                    break
            else:
                continue
        failure = _scan_dotted_expansion(add, dot, a, powers, prime_power_m)
        if failure is not None:
            witness, note = failure
            return _report(name, subject, FAIL, witness=witness, notes=(note,))
        if additive:
            raise InternalCheckError(f"row walk of lambda_{a} fails, but the scan passes")

    additive_prime = [None] * n
    for component in brace.sylow_components():
        for b in component.members[1:]:
            additive_prime[b] = component.prime
    for a in range(n):
        pa = _prime_power(brace.circle_order(a))
        if pa is None and a != 0:
            continue
        for b in range(n):
            q = additive_prime[b]
            if q is None or (pa is not None and pa[0] == q):
                continue
            if dot[a][dot[a][b]] == 0 and dot[a][b] != 0:
                return _report(
                    name, subject, FAIL, witness=(a, b),
                    notes=("square kill without product kill across primes",),
                )
    return _report(name, subject, PASS)


def _power_identities(brace, subject, expansions):
    """The power-identity check, with expansions(a, b) yielding the dotted
    expansion of a^m . b for m = 1..n."""
    name = "power-identities"
    n = brace.order
    add = brace.additive.add_rows()
    group = brace.additive
    dot = brace.dot_table

    for a in range(n):
        powers = [0]
        row = brace.circle_table[a]
        for _ in range(n):
            powers.append(row[powers[-1]])
        lefts = [None, a]
        for _ in range(n - 1):
            lefts.append(dot[a][lefts[-1]])
        for m in range(1, n + 1):
            acc = 0
            for i in range(1, m + 1):
                acc = add[acc][scale(group, math.comb(m, i), lefts[i])]
            if acc != powers[m]:
                return _report(
                    name, subject, FAIL, witness=(a, m),
                    notes=("circle power binomial expansion fails",),
                )
        for b in range(n):
            for m, acc in enumerate(expansions(a, b), start=1):
                if _prime_power(m) is not None and (dot[powers[m]][b] == 0) != (acc == 0):
                    return _report(
                        name, subject, FAIL, witness=(a, b, m),
                        notes=("vanishing equivalence fails at a prime power",),
                    )
                if acc != dot[powers[m]][b]:
                    return _report(
                        name, subject, FAIL, witness=(a, b, m),
                        notes=("dotted binomial expansion fails",),
                    )

    for a in range(n):
        pa = _prime_power(brace.circle_order(a))
        if pa is None and a != 0:
            continue
        for b in range(n):
            qb = _prime_power(brace.additive.order_of(b))
            if qb is None:
                continue
            if pa is not None and pa[0] == qb[0]:
                continue
            if dot[a][dot[a][b]] == 0 and dot[a][b] != 0:
                return _report(
                    name, subject, FAIL, witness=(a, b),
                    notes=("square kill without product kill across primes",),
                )
    return _report(name, subject, PASS)


def oracle_validate_brace(group, circle_table):
    """validate_brace with both laws scanned on every triple."""
    n = group.order
    table = tuple(tuple(row) for row in circle_table)
    if len(table) != n or any(len(row) != n for row in table):
        raise InvalidPresentationError(
            f"circle table must be {n}x{n}"
        )
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise InvalidPresentationError(
                    f"circle table entry [{a}][{b}] = {v!r} out of range"
                )

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

    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise CircleAssociativityError(
                        f"({a} o {b}) o {c} != {a} o ({b} o {c})",
                        witness=(a, b, c),
                    )

    add = group.add_rows()
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if add[table[a][add[b][c]]][a] != add[table[a][b]][table[a][c]]:
                    raise CompatibilityError(
                        f"a o (b + c) + a != a o b + a o c at ({a}, {b}, {c})",
                        witness=(a, b, c),
                    )

    return LeftBrace(group, table)


def oracle_validate_solution(size: int, sigma, tau):
    """validate_solution with the braid relation checked on every triple."""
    sigma = tuple(tuple(row) for row in sigma)
    tau = tuple(tuple(row) for row in tau)
    if len(sigma) != size or len(tau) != size:
        raise InvalidPresentationError(f"tables must have {size} rows")
    for name, rows in (("sigma", sigma), ("tau", tau)):
        for x, row in enumerate(rows):
            if len(row) != size:
                raise InvalidPresentationError(
                    f"{name} row {x} must have {size} entries"
                )
            for v in row:
                if not isinstance(v, int) or not 0 <= v < size:
                    raise InvalidPresentationError(
                        f"{name} row {x} has out-of-range entry {v!r}"
                    )

    for name, rows in (("sigma", sigma), ("tau", tau)):
        for x, row in enumerate(rows):
            if not is_permutation(row, size):
                raise NonDegeneracyError(
                    f"{name} map of {x} is not a bijection", witness=(x,)
                )

    sol = SetTheoreticSolution(size, sigma, tau)
    for x in range(size):
        for y in range(size):
            u, v = sol.r(x, y)
            if sol.r(u, v) != (x, y):
                raise InvolutivityError(
                    f"r is not involutive at ({x}, {y})", witness=(x, y)
                )

    for x in range(size):
        for y in range(size):
            for z in range(size):
                a, b = sol.r(x, y)
                b, c = sol.r(b, z)
                lhs = (*sol.r(a, b), c)
                b, c = sol.r(y, z)
                a, b = sol.r(x, b)
                rhs = (a, *sol.r(b, c))
                if lhs != rhs:
                    raise BraidRelationError(
                        f"braid relation fails at ({x}, {y}, {z})",
                        witness=(x, y, z),
                    )
    return sol


def oracle_is_nilpotent_group(group) -> bool:
    """Lower central series test: nilpotent iff the series reaches {id}."""
    elems = group.elements
    ident = identity_perm(group.degree)
    inverses = {p: invert_perm(p) for p in elems}
    current = elems
    while True:
        commutators = set()
        for a in current:
            a_inv = inverses[a]
            for b in elems:
                c = compose_perms(
                    compose_perms(a, b), compose_perms(a_inv, inverses[b])
                )
                if c != ident:
                    commutators.add(c)
        nxt = closure(group.degree, commutators).elements
        if nxt == current:
            return current == frozenset((ident,))
        current = nxt


def oracle_additive_closure(add_rows, seed) -> frozenset[int]:
    """Subgroup generated by the seed: pairwise sums until nothing is new."""
    members = {0}
    frontier = [0]
    for s in seed:
        if s not in members:
            members.add(s)
            frontier.append(s)
    while frontier:
        x = frontier.pop()
        row = add_rows[x]
        for y in tuple(members):
            z = row[y]
            if z not in members:
                members.add(z)
                frontier.append(z)
    return frozenset(members)


def oracle_nilpotency_equivalence(brace, subject: str = ""):
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


def oracle_cyclic_square_zero(brace) -> bool:
    """Every Sylow component is cyclic with every dot product zero."""
    return all(
        len(c.brace.additive.factors) <= 1
        and all(
            c.brace.dot(a, b) == 0
            for a in range(c.brace.order)
            for b in range(c.brace.order)
        )
        for c in brace.sylow_components()
    )


def oracle_is_two_sided(brace) -> bool:
    """(a + b) . c = a . c + b . c on every triple."""
    n = brace.order
    add, dot = brace.additive.add_rows(), brace.dot_table
    return all(
        dot[add[a][b]][c] == add[dot[a][c]][dot[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def left_power(brace, a: int, n: int) -> int:
    """Left-normed dot power: a, a.a, a.(a.a), ...  Defined for n >= 1."""
    if n < 1:
        raise ValueError(f"left power needs n >= 1, got {n}")
    acc = a
    row = brace.dot_table[a]
    for _ in range(n - 1):
        acc = row[acc]
    return acc


def e_sequence(brace, a: int, b: int, n: int) -> tuple[int, ...]:
    """(e_0, ..., e_n) with e_0 = b and e_{i+1} = a . e_i."""
    if n < 0:
        raise ValueError(f"sequence length needs n >= 0, got {n}")
    row = brace.dot_table[a]
    out = [b]
    for _ in range(n):
        out.append(row[out[-1]])
    return tuple(out)


def e_combination(brace, a: int, b: int, coeffs) -> int:
    """sum_i coeffs[i] . e_i(a, b), with integer coefficients of any size."""
    coeffs = list(coeffs)
    seq = e_sequence(brace, a, b, max(len(coeffs) - 1, 0))
    acc = 0
    for c, e in zip(coeffs, seq):
        acc = brace.additive.add(acc, scale(brace.additive, c, e))
    return acc
