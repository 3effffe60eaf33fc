"""The entry-by-entry brace loops that byte-row translates replaced, kept as
oracles.

bracelab.brace builds the dot and lambda tables and the induced table of
``LeftBrace._induced`` by translating byte rows; ``classify`` decides two-sidedness with the
additivity test ``_nonadditive_generators`` on the dot columns and the
minus rule by one translate per row; ``abelian.is_nilpotent_group`` finds
element orders by composing byte rows; and ``validate_brace`` takes Light's
generators from a left closure.  The functions here do the same jobs one
entry at a time, as the package once did.  tests/test_byte_row_oracles.py
checks that both routes agree.

Circle powers, orders and inverses, and ``classify``'s adjoint nilpotency,
are read off one cached table of circle powers per brace,
``LeftBrace._circle_cycles``.  ``oracle_circle_power`` and
``oracle_circle_order`` are the step-by-step walks of circle row a that
each of them once made, ``oracle_circle_inverse`` the search of row a for
0, and ``oracle_classify`` decides adjoint nilpotency on the circle group
itself.

``oracle_socle`` checks that the socle is an ideal with the three element
loops that ``LeftBrace._socle`` once ran: additive closure pair by pair,
normality in the circle group and lambda-invariance element by element.
``LeftBrace._socle_cosets`` now decides it through ``abelian.quotient_rows``,
the one representative test of every quotient, on the addition and circle
tables, and checks the lambda rows by one translate each.

``oracle_sylow_components`` is the split that induced and validated every
Sylow component anew, even the whole brace when its order is a prime power
and its factors form a chain; ``sylow_components`` returns such a brace as
its own component.  Like ``oracle_retract_quotient``, it builds each brace
through ``oracle_induced``, which validates a new object every time, where
``LeftBrace._induced`` returns the live brace on an equal table.

``oracle_radical_chain_index`` forms each stage of the radical chain entry
by entry, as ``LeftBrace._radical_chain_index`` once did; it now reads each
stage off the joined byte dot rows of the stage before.
"""

import math
from itertools import product as iter_product

from bracelab.abelian import (
    MAX_TABLE_ORDER,
    abelian_structure,
    additive_closure,
    make_group,
    multiples_of,
    primary_components,
)
from bracelab.brace import (
    BraceTraits,
    SylowComponent,
    _nonadditive_generators,
    validate_brace,
)
from bracelab.errors import InternalCheckError
from bracelab.numutil import prime_factorization
from abelian_oracle import invert_perm


def oracle_circle_power(brace, a, n):
    """n-fold circle product of a, one step of row a at a time."""
    acc = 0
    row = brace.circle_table[a]
    for _ in range(n):
        acc = row[acc]
    return acc


def oracle_circle_order(brace, a):
    """Steps of row a from a back to 0, plus one."""
    k = 1
    acc = a
    row = brace.circle_table[a]
    while acc != 0:
        acc = row[acc]
        k += 1
    return k


def oracle_circle_inverse(brace, a):
    """The b with a o b = 0."""
    return brace.circle_table[a].index(0)


def oracle_dot_table(brace):
    """a . b = -a + a o b - b, two addition lookups per entry."""
    add = brace.additive.add_rows()
    neg = [row.index(0) for row in add]
    rows = []
    for a, crow in enumerate(brace.circle_table):
        na = neg[a]
        rows.append(tuple(add[add[c][na]][neg[b]] for b, c in enumerate(crow)))
    return tuple(rows)


def oracle_lambda_rows(brace):
    """lambda_a(b) = b + a . b, one addition lookup per entry."""
    add = brace.additive.add_rows()
    return tuple(bytes([sums[d] for sums, d in zip(add, row)]) for row in brace.dot_table)


def oracle_induced(brace, reps, cls):
    """LeftBrace._induced with the addition rows and the table filled entry
    by entry: the validated brace and the relabeling."""
    m = len(reps)
    add = brace.additive.add_rows()
    factors, relabel = abelian_structure([[cls[add[x][y]] for y in reps] for x in reps])
    table = [[0] * m for _ in range(m)]
    for i, x in enumerate(reps):
        row = table[relabel[i]]
        circle_row = brace.circle_table[x]
        for j, y in enumerate(reps):
            row[relabel[j]] = relabel[cls[circle_row[y]]]
    return validate_brace(make_group(factors), table), relabel


def oracle_retract_quotient(brace):
    """retract_quotient with representative independence checked pair by pair."""
    soc = brace.socle().members
    n = brace.order
    add = brace.additive.add_rows()
    coset_rep = [-1] * n
    reps = []
    for x in range(n):
        if coset_rep[x] < 0:
            reps.append(x)
            for s in soc:
                coset_rep[add[x][s]] = x
    circle = brace.circle_table
    for x in range(n):
        row, rep_row = circle[x], circle[coset_rep[x]]
        for y in range(n):
            if coset_rep[row[y]] != coset_rep[rep_row[coset_rep[y]]]:
                raise InternalCheckError(
                    "induced circle table depends on coset representatives"
                    f" at ({coset_rep[x]}, {coset_rep[y]})"
                )
    local = {rep: i for i, rep in enumerate(reps)}
    return oracle_induced(brace, reps, [local[coset_rep[x]] for x in range(n)])[0]


def oracle_socle(brace):
    """The socle's members, with additive closure, normality in the circle
    group and lambda-invariance checked element by element."""
    n = brace.order
    add = brace.additive.add_rows()
    zero_row = (0,) * n
    members = frozenset(a for a in range(n) if brace.dot_table[a] == zero_row)
    for s in members:
        for t in members:
            if add[s][t] not in members:
                raise InternalCheckError(f"socle not additively closed at ({s}, {t})")
    for a, lam in enumerate(oracle_lambda_rows(brace)):
        arow, inverse = brace.circle_table[a], oracle_circle_inverse(brace, a)
        for s in members:
            if brace.circle_table[arow[s]][inverse] not in members:
                raise InternalCheckError(f"socle not normal in the circle group at ({a}, {s})")
            if lam[s] not in members:
                raise InternalCheckError(f"socle not lambda-invariant at ({a}, {s})")
    return members


def oracle_sylow_components(brace):
    """sylow_components with every component induced and validated anew,
    a brace of prime-power order in chain form included."""
    add = brace.additive.add_rows()
    multiples = [multiples_of(add, x) for x in range(brace.order)]
    out = []
    for p, alpha, members in primary_components(multiples):
        local = {x: i for i, x in enumerate(members)}
        for x in members:
            for y in members:
                if brace.circle_table[x][y] not in local:
                    raise InternalCheckError(
                        f"prime component not circle-closed at ({x}, {y})"
                    )
        sub, relabel = oracle_induced(brace, members, local)
        to_parent = tuple(members[i] for i in invert_perm(relabel))
        out.append(SylowComponent(p, alpha, tuple(members), sub, to_parent))
    return out


def perm_order_is_nilpotent_group(group) -> bool:
    """is_nilpotent_group with element orders from abelian.perm_order's
    cycle walk, point by point."""
    orders = [perm_order(p) for p in group.elements]
    for p, a in prime_factorization(group.order).items():
        pa = p**a
        if sum(1 for k in orders if pa % k == 0) != pa:
            return False
    return True


def perm_order(p) -> int:
    """The lcm of the cycle lengths of p."""
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def oracle_classify(brace) -> BraceTraits:
    """classify with two-sidedness and the minus rule decided entry by entry
    and adjoint nilpotency from cycle walks."""
    n = brace.order
    add = brace.additive.add_rows()
    neg = [row.index(0) for row in add]
    dot = brace.dot_table

    # the b with (a + b) . c = a . c + b . c for all a and c form a
    # subgroup, so the canonical additive generators decide two-sidedness
    gens = brace.additive.generators()
    two_sided = all(
        dot[add[a][g]] == tuple(add[u][v] for u, v in zip(dot[a], dot[g]))
        for g in gens
        for a in range(n)
    )
    minus_rule = all(
        dot[neg[a]][b] == neg[dot[a][b]] for a in range(n) for b in range(n)
    )
    steps = brace._left_power_steps
    left_nil_index = None if None in steps else max(steps)
    adjoint_nilpotent = perm_order_is_nilpotent_group(brace.adjoint_group())
    ring_nilpotent = None
    if two_sided:
        for a, b, c in iter_product(gens, repeat=3):
            if dot[dot[a][b]][c] != dot[a][dot[b][c]]:
                raise InternalCheckError(
                    "two-sided brace with non-associative dot product"
                    f" at ({a}, {b}, {c})"
                )
        ring_nilpotent = brace.radical_chain_index() is not None
    return BraceTraits(
        is_two_sided=two_sided,
        left_nil_index=left_nil_index,
        adjoint_nilpotent=adjoint_nilpotent,
        minus_rule=minus_rule,
        ring_nilpotent=ring_nilpotent,
    )


def oracle_radical_chain_index(brace) -> int | None:
    """radical_chain_index with each stage spanned by its products x . a
    taken one entry at a time."""
    add = brace.additive.add_rows()
    current = frozenset(range(brace.order))
    index = 1
    while True:
        if current == frozenset((0,)):
            return index
        products = {brace.dot_table[x][a] for x in current for a in range(brace.order)}
        nxt = additive_closure(add, products)
        if nxt == current:
            return None
        if not nxt <= current:
            raise InternalCheckError("radical chain is not decreasing")
        current = nxt
        index += 1


def magma_generators(table) -> list[int]:
    """A greedy generating set of the table's magma, 0 left out.

    The closure takes every product of two members in both orders, so it
    assumes neither associativity nor inverses.
    """
    n = len(table)
    covered = [False] * n
    covered[0] = True
    members = [0]
    gens = []
    for t in range(1, n):
        if covered[t]:
            continue
        gens.append(t)
        covered[t] = True
        members.append(t)
        i = len(members) - 1
        while i < len(members):
            z = members[i]
            row_z = table[z]
            for c in members[: i + 1]:
                for v in (row_z[c], table[c][z]):
                    if not covered[v]:
                        covered[v] = True
                        members.append(v)
            i += 1
    return gens


def oracle_row_failure(group, table) -> str | None:
    """brace._brace_row_failure with Light's test run on magma generators
    of the table, read off its tuple rows."""
    n = group.order
    pad = bytes(MAX_TABLE_ORDER - n)
    rows = [bytes(row) for row in table]
    lookups = [row + pad for row in rows]
    for g in magma_generators(table):
        gen_row = rows[g]
        for x, row_x in enumerate(table):
            if rows[row_x[g]] != gen_row.translate(lookups[x]):
                return f"associativity at generator {g} with {x} on the left"
    add = group.add_rows()
    lambdas = [row.translate(bytes(add[group.neg(a)]) + pad) for a, row in enumerate(rows)]
    for a, g in enumerate(_nonadditive_generators(group, lambdas)):
        if g is not None:
            return f"compatibility at {a} with additive generator {g}"
    return None
